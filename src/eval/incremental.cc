#include "eval/incremental.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dependency_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace semopt {

namespace {

/// RelationSource for maintenance joins: EDB + IDB resolution with two
/// per-phase layers on top — `overrides` rebind the synthetic view
/// predicates (`__ivm_dm_*`, `__ivm_dp_*`, `__ivm_cand_*`) to the
/// relation backing them this batch, and `deltas` carry the trigger
/// relation each delta-rule execution reads.
class IvmSource : public RelationSource {
 public:
  IvmSource(const Database* edb, const Database* idb,
            const std::set<PredicateId>* idb_preds)
      : edb_(edb), idb_(idb), idb_preds_(idb_preds) {}

  const Relation* Full(const PredicateId& pred) const override {
    auto it = overrides_.find(pred);
    if (it != overrides_.end()) return it->second;
    if (idb_preds_->count(pred) > 0) return idb_->Find(pred);
    return edb_->Find(pred);
  }
  const Relation* Delta(const PredicateId& pred) const override {
    auto it = deltas_.find(pred);
    return it == deltas_.end() ? nullptr : it->second;
  }

  void SetOverride(const PredicateId& pred, const Relation* rel) {
    overrides_[pred] = rel;
  }
  void SetDelta(const PredicateId& pred, const Relation* rel) {
    deltas_[pred] = rel;
  }
  void ClearDeltas() { deltas_.clear(); }

 private:
  const Database* edb_;
  const Database* idb_;
  const std::set<PredicateId>* idb_preds_;
  std::map<PredicateId, const Relation*> overrides_;
  std::map<PredicateId, const Relation*> deltas_;
};

/// Interns the synthetic view predicate `<prefix><name>` of the same
/// arity as `p`. Stable across batches (the interner is a process-wide
/// table), so rewritten rules — and therefore plan-cache keys — never
/// change between batches.
PredicateId ViewPred(const char* prefix, const PredicateId& p) {
  return PredicateId{InternSymbol(StrCat(prefix, SymbolName(p.name))),
                     p.arity};
}
/// The Δ- / Δ+ branch view of a lower predicate in a differentiated
/// overdeletion rule variant (see DeltaRule::view_deltas).
PredicateId DmPred(const PredicateId& p) { return ViewPred("__ivm_dm_", p); }
PredicateId DpPred(const PredicateId& p) { return ViewPred("__ivm_dp_", p); }
PredicateId CandPred(const PredicateId& p) {
  return ViewPred("__ivm_cand_", p);
}

/// The metrics/plan-cache base name of `rule`: its label, else its head.
std::string RuleBaseName(const Rule& rule) {
  return rule.label().empty() ? rule.head().pred_id().ToString()
                              : rule.label();
}

/// Runs one maintenance rule execution through the plan cache and the
/// batched executor, appending every derived head row (multiset — dedup
/// happens at the commit) to `out`.
void RunDelta(const RuleExecutor& exec, PlanCacheInterface& cache,
              const RelationSource& source, int delta_literal,
              const EvalOptions& options, EvalStats* stats,
              TupleBuffer* out) {
  out->Reset(static_cast<uint32_t>(exec.rule().head().args().size()));
  // Coarse bands: maintenance inputs are deltas whose sizes jitter
  // batch to batch; fine sub-1024 bands would re-plan forever.
  Result<RuleExecutor::PreparedPlan> plan =
      cache.Get(exec, source, delta_literal, stats, /*partitioned=*/false,
                /*coarse_bands=*/true);
  if (!plan.ok()) return;  // Create() validated the rule; cannot fail
  exec.ExecutePlanBatched(
      *plan, source, delta_literal,
      [out](const TupleBuffer& block) { out->AppendAll(block); }, stats,
      options.batch_size, 0, RuleExecutor::kNoMorsel,
      /*scratch=*/nullptr, ResolveSimdMode(options.simd));
}

/// The per-predicate delta relation in `map`, created on first use.
Relation* DeltaFor(std::map<PredicateId, std::unique_ptr<Relation>>* map,
                   const PredicateId& pred) {
  auto it = map->find(pred);
  if (it == map->end()) {
    it = map->emplace(pred, std::make_unique<Relation>(pred)).first;
  }
  return it->second.get();
}

/// The delta relation for `pred` in `map`, or nullptr when absent/empty.
const Relation* NonEmptyDelta(
    const std::map<PredicateId, std::unique_ptr<Relation>>& map,
    const PredicateId& pred) {
  auto it = map.find(pred);
  if (it == map.end() || it->second->empty()) return nullptr;
  return it->second.get();
}

/// The trigger relation a DeltaRule reads this batch, or nullptr when
/// the trigger predicate did not change on the relevant side.
const Relation* TriggerRelation(
    const std::map<PredicateId, std::unique_ptr<Relation>>& dminus,
    const std::map<PredicateId, std::unique_ptr<Relation>>& dplus,
    const PredicateId& trigger, bool on_insert) {
  return NonEmptyDelta(on_insert ? dplus : dminus, trigger);
}

/// Copies every row of `rel` into a flat buffer (Erase victims).
void BufferRows(const Relation& rel, TupleBuffer* out) {
  out->Reset(rel.arity());
  for (RowRef row : rel.rows()) out->Append(row);
}

}  // namespace

void IvmStats::Add(const IvmStats& other) {
  batches += other.batches;
  edb_deleted += other.edb_deleted;
  edb_inserted += other.edb_inserted;
  overdeleted += other.overdeleted;
  rederived += other.rederived;
  recounted += other.recounted;
  net_deleted += other.net_deleted;
  net_inserted += other.net_inserted;
  maintenance_us += other.maintenance_us;
}

void IvmStats::Publish() const {
  // Counters are registry-owned and never freed: resolve them once.
  auto counter = [](const char* name) -> obs::Counter& {
    return obs::MetricsRegistry::Global().GetCounter(name);
  };
  static obs::Counter& c_batches = counter("eval.ivm.batches");
  static obs::Counter& c_edb_deleted = counter("eval.ivm.edb_deleted");
  static obs::Counter& c_edb_inserted = counter("eval.ivm.edb_inserted");
  static obs::Counter& c_overdeleted = counter("eval.ivm.overdeleted");
  static obs::Counter& c_rederived = counter("eval.ivm.rederived");
  static obs::Counter& c_recounted = counter("eval.ivm.recounted");
  static obs::Counter& c_net_deleted = counter("eval.ivm.net_deleted");
  static obs::Counter& c_net_inserted = counter("eval.ivm.net_inserted");
  static obs::Counter& c_maintenance_us = counter("eval.ivm.maintenance_us");
  auto add = [](obs::Counter& c, uint64_t v) {
    if (v != 0) c.Add(v);
  };
  add(c_batches, batches);
  add(c_edb_deleted, edb_deleted);
  add(c_edb_inserted, edb_inserted);
  add(c_overdeleted, overdeleted);
  add(c_rederived, rederived);
  add(c_recounted, recounted);
  add(c_net_deleted, net_deleted);
  add(c_net_inserted, net_inserted);
  add(c_maintenance_us, maintenance_us);
}

std::string IvmStats::ToString() const {
  return StrCat("batches=", batches, " edb_deleted=", edb_deleted,
                " edb_inserted=", edb_inserted, " overdeleted=", overdeleted,
                " rederived=", rederived, " recounted=", recounted,
                " net_deleted=", net_deleted, " net_inserted=", net_inserted,
                " maintenance_us=", maintenance_us);
}

Result<IncrementalEvaluator> IncrementalEvaluator::Create(
    const Program& program, Database edb, const EvalOptions& options) {
  SEMOPT_RETURN_IF_ERROR(ValidateEvalOptions(options));

  // Structured stratification check up front: PlanComponents would also
  // reject an unstratifiable program, but here we can name the exact
  // negated literal that closes the negative cycle.
  DependencyGraph graph = DependencyGraph::Build(program);
  std::map<PredicateId, size_t> scc_of;
  {
    std::vector<std::vector<PredicateId>> sccs = graph.Sccs();
    for (size_t i = 0; i < sccs.size(); ++i) {
      for (const PredicateId& p : sccs[i]) scc_of[p] = i;
    }
  }
  for (const Rule& rule : program.rules()) {
    const PredicateId head = rule.head().pred_id();
    for (const Literal& lit : rule.body()) {
      if (!lit.IsRelational() || !lit.negated()) continue;
      const PredicateId q = lit.atom().pred_id();
      auto hit = scc_of.find(head);
      auto qit = scc_of.find(q);
      if (hit != scc_of.end() && qit != scc_of.end() &&
          hit->second == qit->second) {
        return Status::InvalidArgument(StrCat(
            "program is not stratifiable: rule ", rule.ToString(),
            " negates ", lit.atom().ToString(), " but ", q.ToString(),
            " is mutually recursive with the rule head ", head.ToString(),
            " — the negated predicate must come from a strictly lower "
            "stratum"));
      }
    }
  }

  IncrementalEvaluator out;
  out.program_ = program;
  out.options_ = options;
  out.idb_preds_ = program.IdbPredicates();
  out.edb_ = std::move(edb);
  for (const PredicateId& pred : out.edb_.Predicates()) {
    if (out.edb_.Shared(pred)) out.borrowed_.insert(pred);
  }
  // Base fixpoint through the standard engine (the one place the
  // parallel evaluator applies; maintenance runs on the caller thread).
  SEMOPT_ASSIGN_OR_RETURN(out.idb_, Evaluate(out.program_, out.edb_, options));
  SEMOPT_ASSIGN_OR_RETURN(std::vector<EvalComponent> components,
                          PlanComponents(out.program_));
  SEMOPT_RETURN_IF_ERROR(out.CompileStrata(std::move(components)));
  for (Stratum& s : out.strata_) {
    if (!s.recursive && !s.rules.empty()) {
      SEMOPT_RETURN_IF_ERROR(out.InitCounts(s, nullptr));
    }
  }
  return out;
}

Status IncrementalEvaluator::CompileStrata(
    std::vector<EvalComponent> components) {
  for (EvalComponent& comp : components) {
    Stratum s;
    s.preds = std::move(comp.preds);
    s.recursive = comp.recursive;
    s.rules = std::move(comp.rules);
    for (const PlannedRule& pr : s.rules) {
      const Rule& rule = pr.executor.rule();
      const std::string base = RuleBaseName(rule);

      // Overdeletion / affected-set rules: one per relational body
      // occurrence whose change can remove a derivation. The trigger
      // occurrence keeps its original predicate (it reads the delta).
      // Every other *lower* occurrence must be read in its pre-update
      // state even though lower strata already hold post-update values;
      // rather than materializing pre-state views (a full relation copy
      // per changed predicate per batch — O(|DB|)), the rule is
      // differentiated: pre ⊆ stored ∪ Δ- for a positive occurrence,
      // ¬pre ⊆ ¬stored ∨ Δ+ for a negated one, and the product of those
      // unions expands into 2^k compiled variants, each reading one
      // branch per occurrence. Per batch a variant runs only when every
      // delta it reads is non-empty, so steady-state cost follows the
      // batch, not the database. Same-stratum occurrences stay as-is —
      // the stratum's stored relations are not erased until the
      // overdeletion fixpoint has completed, so they still hold the
      // pre-state.
      for (size_t i = 0; i < rule.body().size(); ++i) {
        const Literal& trigger_lit = rule.body()[i];
        if (!trigger_lit.IsRelational()) continue;
        const PredicateId q = trigger_lit.atom().pred_id();
        const bool same_stratum = s.preds.count(q) > 0;
        std::vector<size_t> lower_pos;
        for (size_t j = 0; j < rule.body().size(); ++j) {
          const Literal& lit = rule.body()[j];
          if (j == i || !lit.IsRelational()) continue;
          if (s.preds.count(lit.atom().pred_id()) > 0) continue;
          lower_pos.push_back(j);
        }
        for (uint32_t mask = 0; mask < (1u << lower_pos.size()); ++mask) {
          std::vector<Literal> body;
          std::vector<std::pair<PredicateId, bool>> view_deltas;
          body.reserve(rule.body().size());
          for (size_t j = 0; j < rule.body().size(); ++j) {
            const Literal& lit = rule.body()[j];
            if (j == i) {
              // Negated triggers run positive: the delta holds the
              // tuples whose arrival in q just falsified ¬q.
              body.push_back(lit.negated() ? Literal::Relational(lit.atom())
                                           : lit);
              continue;
            }
            size_t bit = lower_pos.size();
            for (size_t b = 0; b < lower_pos.size(); ++b) {
              if (lower_pos[b] == j) bit = b;
            }
            if (bit == lower_pos.size() || ((mask >> bit) & 1) == 0) {
              // Stored branch: the literal reads the post-update
              // relation verbatim (¬stored for a negated occurrence).
              body.push_back(lit);
              continue;
            }
            // Delta branch: Δ- of a positive occurrence, Δ+ of a
            // negated one (the tuples whose arrival just falsified
            // it), both read positively through the view predicate.
            const PredicateId lq = lit.atom().pred_id();
            const bool on_insert = lit.negated();
            view_deltas.emplace_back(lq, on_insert);
            body.push_back(Literal::Relational(
                Atom((on_insert ? DpPred(lq) : DmPred(lq)).name,
                     lit.atom().args())));
          }
          Rule od(StrCat(base, "~ivm_od", i, "v", mask), rule.head(),
                  std::move(body));
          SEMOPT_ASSIGN_OR_RETURN(RuleExecutor exec, RuleExecutor::Create(od));
          // Deletion side: a positive occurrence loses derivations when
          // q shrinks (read Δ-); a negated one when q grows (read Δ+).
          (same_stratum ? s.delete_propagate : s.delete_seeds)
              .push_back(DeltaRule{std::move(exec), pr.head,
                                   static_cast<int>(i), q,
                                   trigger_lit.negated(),
                                   std::move(view_deltas)});
        }

        // Insertion triggers only fire on lower-stratum changes — the
        // stratum's own insertion fixpoint reuses the original rules'
        // recursive_literals like the semi-naive engine.
        if (!same_stratum) {
          if (trigger_lit.negated()) {
            // ¬q gains bindings when q loses tuples: rewrite the
            // occurrence positive, everything else untouched (insertion
            // propagation is exact on the post-update state).
            std::vector<Literal> ins_body = rule.body();
            ins_body[i] = Literal::Relational(trigger_lit.atom());
            Rule ir(StrCat(base, "~ivm_ins", i), rule.head(),
                    std::move(ins_body));
            SEMOPT_ASSIGN_OR_RETURN(RuleExecutor iexec,
                                    RuleExecutor::Create(ir));
            s.insert_seeds.push_back(DeltaRule{std::move(iexec), pr.head,
                                               static_cast<int>(i), q,
                                               false, {}});
          } else {
            SEMOPT_ASSIGN_OR_RETURN(RuleExecutor iexec,
                                    RuleExecutor::Create(rule));
            s.insert_seeds.push_back(DeltaRule{std::move(iexec), pr.head,
                                               static_cast<int>(i), q,
                                               true, {}});
          }
        }
      }

      // Candidate-restricted form: prepend the cand guard, keep the
      // body verbatim (it reads the exact post-update state).
      const PredicateId cand = CandPred(pr.head);
      std::vector<Literal> rbody;
      rbody.reserve(rule.body().size() + 1);
      rbody.push_back(
          Literal::Relational(Atom(cand.name, rule.head().args())));
      for (const Literal& lit : rule.body()) rbody.push_back(lit);
      Rule rr(StrCat(base, "~ivm_re"), rule.head(), std::move(rbody));
      SEMOPT_ASSIGN_OR_RETURN(RuleExecutor rexec, RuleExecutor::Create(rr));
      s.restricted.push_back(RestrictedRule{std::move(rexec), pr.head, cand});
    }
    strata_.push_back(std::move(s));
  }
  return Status::Ok();
}

Status IncrementalEvaluator::InitCounts(Stratum& stratum, EvalStats* stats) {
  IvmSource source(&edb_, &idb_, &idb_preds_);
  TupleBuffer buffer(0);
  for (const PredicateId& p : stratum.preds) {
    Relation& stored = idb_.GetOrCreate(p);
    std::vector<int64_t>& counts = counts_[p];
    counts.assign(stored.size(), 0);
    if (stored.empty()) continue;
    // Candidates := every stored tuple; the stored relation itself
    // backs the cand guard, so seeding costs no copy.
    Relation scratch(CandPred(p));
    std::vector<int64_t> tally;
    std::vector<RowId> ids;
    for (const RestrictedRule& rr : stratum.restricted) {
      if (!(rr.head == p)) continue;
      source.SetOverride(rr.cand, &stored);
      source.SetDelta(rr.cand, &stored);
      RunDelta(rr.executor, cache(), source, /*delta_literal=*/0, options_,
               stats, &buffer);
      source.ClearDeltas();
      scratch.CommitCounted(buffer, /*delta_target=*/nullptr, &ids);
      tally.resize(scratch.size(), 0);
      for (RowId id : ids) ++tally[id];
    }
    for (size_t i = 0; i < scratch.size(); ++i) {
      const RowId sid = stored.store().Find(scratch.row(i).data());
      if (sid != kInvalidRowId) counts[sid] = tally[i];
    }
  }
  return Status::Ok();
}

Result<IvmStats> IncrementalEvaluator::ApplyUpdates(
    const std::vector<Atom>& adds, const std::vector<Atom>& dels,
    EvalStats* stats, DatabaseDelta* delta) {
  const uint64_t start_ns = obs::MonotonicNowNs();
  IvmStats batch;
  batch.batches = 1;

  // Every fact is validated before the EDB changes, so a rejected batch
  // leaves the evaluator untouched: IDB predicates here, non-ground
  // facts in StageBatch.
  for (const std::vector<Atom>* facts : {&adds, &dels}) {
    for (const Atom& fact : *facts) {
      if (idb_preds_.count(fact.pred_id()) > 0) {
        return Status::InvalidArgument(
            StrCat("cannot write IDB predicate ", fact.pred_id().ToString(),
                   ": derived tuples change only through their rules"));
      }
    }
  }
  SEMOPT_ASSIGN_OR_RETURN(DatabaseDelta staged,
                          StageBatch(edb_, adds, dels));

  // Apply the staged EDB change and seed `dminus`/`dplus` with it; they
  // accumulate the per-predicate net deltas as the batch climbs the
  // strata. A relation borrowed from the caller's database is copied
  // before its first write; everything else is ours to write in place.
  DeltaMap dminus;
  DeltaMap dplus;
  for (const auto& [pred, change] : staged) {
    change.ApplyTo(borrowed_.erase(pred) > 0 ? &edb_.Unshare(pred)
                                             : &edb_.GetOrCreate(pred));
    if (!change.erased.empty()) {
      DeltaFor(&dminus, pred)->Commit(change.erased, nullptr);
      batch.edb_deleted += change.erased.size();
    }
    if (!change.inserted.empty()) {
      DeltaFor(&dplus, pred)->Commit(change.inserted, nullptr);
      batch.edb_inserted += change.inserted.size();
    }
  }

  if (!staged.empty()) {
    for (Stratum& s : strata_) {
      SEMOPT_RETURN_IF_ERROR(
          MaintainStratum(s, &dminus, &dplus, &batch, stats));
    }
  }

  if (delta != nullptr) {
    // The batch's settled net change, EDB and IDB alike: exactly the
    // rows a published copy of both must erase and insert.
    delta->clear();
    auto hand_back = [delta](const DeltaMap& side, bool inserted) {
      for (const auto& [pred, rel] : side) {
        if (rel->empty()) continue;
        RelationDelta& d = delta->try_emplace(pred, pred.arity).first->second;
        BufferRows(*rel, inserted ? &d.inserted : &d.erased);
      }
    };
    hand_back(dminus, /*inserted=*/false);
    hand_back(dplus, /*inserted=*/true);
  }

  batch.maintenance_us = (obs::MonotonicNowNs() - start_ns) / 1000;
  totals_.Add(batch);
  batch.Publish();
  return batch;
}

Status IncrementalEvaluator::MaintainStratum(Stratum& s, DeltaMap* dminus,
                                             DeltaMap* dplus, IvmStats* batch,
                                             EvalStats* stats) {
  if (s.rules.empty()) return Status::Ok();  // EDB-only component
  bool any_trigger = false;
  for (const DeltaRule& d : s.delete_seeds) {
    if (TriggerRelation(*dminus, *dplus, d.trigger, d.trigger_on_insert)) {
      any_trigger = true;
      break;
    }
  }
  if (!any_trigger) {
    for (const DeltaRule& d : s.insert_seeds) {
      if (TriggerRelation(*dminus, *dplus, d.trigger, d.trigger_on_insert)) {
        any_trigger = true;
        break;
      }
    }
  }
  if (!any_trigger) return Status::Ok();

  IvmSource source(&edb_, &idb_, &idb_preds_);
  // Binds the Δ-branch views a differentiated variant reads to this
  // batch's delta relations. False when any of them is empty: that
  // variant's product term contributes nothing, so it never executes —
  // the mechanism that keeps per-batch work proportional to the batch.
  // A stale override left by an earlier variant is harmless; each
  // variant's rule only references the views it binds itself.
  auto bind_views = [&](const DeltaRule& d) {
    for (const auto& [q, on_insert] : d.view_deltas) {
      const Relation* rel = NonEmptyDelta(on_insert ? *dplus : *dminus, q);
      if (rel == nullptr) return false;
      source.SetOverride(on_insert ? DpPred(q) : DmPred(q), rel);
    }
    return true;
  };

  TupleBuffer buffer(0);

  // ---- Affected-set / overdeletion pass -------------------------------
  // Candidates per stratum predicate. DRed (recursive) restricts them to
  // stored tuples (only a stored tuple can die); the counting pass keeps
  // new tuples too, because the recount also discovers insertions.
  DeltaMap cand;
  DeltaMap dcand;
  DeltaMap next_dcand;
  for (const PredicateId& p : s.preds) {
    cand.emplace(p, std::make_unique<Relation>(CandPred(p)));
    dcand.emplace(p, std::make_unique<Relation>(CandPred(p)));
    next_dcand.emplace(p, std::make_unique<Relation>(CandPred(p)));
  }
  auto commit_candidates = [&](const PredicateId& head, bool stored_only,
                               Relation* delta_out) {
    const Relation* stored = idb_.Find(head);
    Relation* c = cand[head].get();
    for (size_t i = 0; i < buffer.size(); ++i) {
      RowRef row = buffer.row(i);
      if (stored_only && (stored == nullptr || !stored->Contains(row))) {
        continue;
      }
      if (c->Insert(row) && delta_out != nullptr) delta_out->Insert(row);
    }
  };

  for (const DeltaRule& d : s.delete_seeds) {
    const Relation* trig =
        TriggerRelation(*dminus, *dplus, d.trigger, d.trigger_on_insert);
    if (trig == nullptr || !bind_views(d)) continue;
    source.SetDelta(d.trigger, trig);
    RunDelta(d.executor, cache(), source, d.delta_literal, options_, stats,
             &buffer);
    source.ClearDeltas();
    commit_candidates(d.head, s.recursive, dcand[d.head].get());
  }

  if (s.recursive) {
    // Overdeletion closure within the stratum: newly doomed tuples can
    // take same-stratum derivations down with them.
    auto dcand_total = [&]() {
      size_t total = 0;
      for (const auto& [p, rel] : dcand) total += rel->size();
      return total;
    };
    while (dcand_total() > 0) {
      for (const DeltaRule& d : s.delete_propagate) {
        const Relation* trig = dcand[d.trigger].get();
        if (trig->empty() || !bind_views(d)) continue;
        source.SetDelta(d.trigger, trig);
        RunDelta(d.executor, cache(), source, d.delta_literal, options_,
                 stats, &buffer);
        source.ClearDeltas();
        commit_candidates(d.head, /*stored_only=*/true,
                          next_dcand[d.head].get());
      }
      for (const PredicateId& p : s.preds) {
        dcand[p]->Clear();
        std::swap(dcand[p], next_dcand[p]);
      }
    }
  } else {
    // Counting stratum: fold insertion-affected tuples into the same
    // candidate set — the exact recount below settles both directions
    // in one pass.
    for (const DeltaRule& d : s.insert_seeds) {
      const Relation* trig =
          TriggerRelation(*dminus, *dplus, d.trigger, d.trigger_on_insert);
      if (trig == nullptr) continue;
      source.SetDelta(d.trigger, trig);
      RunDelta(d.executor, cache(), source, d.delta_literal, options_, stats,
               &buffer);
      source.ClearDeltas();
      commit_candidates(d.head, /*stored_only=*/false, nullptr);
    }

    // Exact per-tuple recount of every candidate on the post state.
    for (const PredicateId& p : s.preds) {
      Relation* c = cand[p].get();
      if (c->empty()) continue;
      Relation& stored = idb_.GetOrCreate(p);
      Relation scratch(CandPred(p));
      std::vector<int64_t> tally;
      std::vector<RowId> ids;
      for (const RestrictedRule& rr : s.restricted) {
        if (!(rr.head == p)) continue;
        source.SetOverride(rr.cand, c);
        source.SetDelta(rr.cand, c);
        RunDelta(rr.executor, cache(), source, /*delta_literal=*/0, options_,
                 stats, &buffer);
        source.ClearDeltas();
        scratch.CommitCounted(buffer, /*delta_target=*/nullptr, &ids);
        tally.resize(scratch.size(), 0);
        for (RowId id : ids) ++tally[id];
      }
      batch->recounted += c->size();

      std::vector<int64_t>& counts = counts_[p];
      TupleBuffer victims(stored.arity());
      TupleBuffer fresh(stored.arity());
      std::vector<int64_t> fresh_counts;
      std::vector<std::pair<RowRef, int64_t>> keep;
      for (RowRef row : c->rows()) {
        const RowId sid = scratch.store().Find(row.data());
        const int64_t n = sid == kInvalidRowId ? 0 : tally[sid];
        if (stored.Contains(row)) {
          if (n == 0) {
            victims.Append(row);
          } else {
            keep.emplace_back(row, n);
          }
        } else if (n > 0) {
          fresh.Append(row);
          fresh_counts.push_back(n);
        }
      }
      if (!victims.empty()) {
        // Replay the store's swap-removal renames on the count column —
        // O(|victims|), in lockstep with Erase itself.
        std::vector<std::pair<RowId, RowId>> moves;
        const size_t erased = stored.Erase(victims, &moves);
        for (const auto& [from, to] : moves) counts[to] = counts[from];
        counts.resize(stored.size());
        Relation* out = DeltaFor(dminus, p);
        for (size_t i = 0; i < victims.size(); ++i) {
          out->Insert(victims.row(i));
        }
        batch->net_deleted += erased;
      }
      if (!fresh.empty()) {
        stored.CommitCounted(fresh, /*delta_target=*/nullptr, &ids);
        counts.resize(stored.size(), 0);
        for (size_t i = 0; i < ids.size(); ++i) {
          counts[ids[i]] = fresh_counts[i];
        }
        Relation* out = DeltaFor(dplus, p);
        for (size_t i = 0; i < fresh.size(); ++i) out->Insert(fresh.row(i));
        batch->net_inserted += fresh.size();
      }
      for (const auto& [row, n] : keep) {
        const RowId sid = stored.store().Find(row.data());
        if (sid != kInvalidRowId) counts[sid] = n;
      }
    }
    return Status::Ok();
  }

  // ---- DRed: erase candidates, rederive survivors ---------------------
  DeltaMap erased;
  DeltaMap inserted;
  for (const PredicateId& p : s.preds) {
    Relation* c = cand[p].get();
    if (c->empty()) continue;
    TupleBuffer victims(c->arity());
    BufferRows(*c, &victims);
    batch->overdeleted += idb_.GetOrCreate(p).Erase(victims);
    erased.emplace(p, std::move(cand[p]));
  }

  if (!erased.empty()) {
    // Remaining = overdeleted tuples not yet rederived; shrink as
    // survivors come back (a rederived tuple can support another
    // candidate, so iterate to fixpoint).
    DeltaMap remaining;
    DeltaMap newly;
    for (auto& [p, rel] : erased) {
      remaining.emplace(p, std::make_unique<Relation>(*rel));
      newly.emplace(p, std::make_unique<Relation>(CandPred(p)));
    }
    while (true) {
      size_t round_rederived = 0;
      for (const RestrictedRule& rr : s.restricted) {
        const Relation* rem = NonEmptyDelta(remaining, rr.head);
        if (rem == nullptr) continue;
        source.SetOverride(rr.cand, rem);
        source.SetDelta(rr.cand, rem);
        RunDelta(rr.executor, cache(), source, /*delta_literal=*/0, options_,
                 stats, &buffer);
        source.ClearDeltas();
        round_rederived += idb_.GetOrCreate(rr.head)
                               .Commit(buffer, newly[rr.head].get())
                               .inserted;
      }
      if (round_rederived == 0) break;
      batch->rederived += round_rederived;
      for (auto& [p, fresh] : newly) {
        if (fresh->empty()) continue;
        TupleBuffer back(fresh->arity());
        BufferRows(*fresh, &back);
        remaining[p]->Erase(back);
        Relation* ins = DeltaFor(&inserted, p);
        for (RowRef row : fresh->rows()) ins->Insert(row);
        fresh->Clear();
      }
    }
  }

  // ---- DRed: insertion propagation (semi-naive on the post state) -----
  DeltaMap delta;
  DeltaMap next_delta;
  for (const PredicateId& p : s.preds) {
    delta.emplace(p, std::make_unique<Relation>(p));
    next_delta.emplace(p, std::make_unique<Relation>(p));
  }
  for (const DeltaRule& d : s.insert_seeds) {
    const Relation* trig =
        TriggerRelation(*dminus, *dplus, d.trigger, d.trigger_on_insert);
    if (trig == nullptr) continue;
    source.SetDelta(d.trigger, trig);
    RunDelta(d.executor, cache(), source, d.delta_literal, options_, stats,
             &buffer);
    source.ClearDeltas();
    idb_.GetOrCreate(d.head).Commit(buffer, delta[d.head].get());
  }
  auto delta_total = [&]() {
    size_t total = 0;
    for (const auto& [p, rel] : delta) total += rel->size();
    return total;
  };
  size_t pending = delta_total();
  while (pending > 0) {
    for (const PredicateId& p : s.preds) {
      Relation* d = delta[p].get();
      if (d->empty()) continue;
      Relation* ins = DeltaFor(&inserted, p);
      for (RowRef row : d->rows()) ins->Insert(row);
    }
    for (const PlannedRule& pr : s.rules) {
      if (pr.recursive_literals.empty()) continue;  // exit rule: done
      Relation& target = idb_.GetOrCreate(pr.head);
      for (int lit_index : pr.recursive_literals) {
        for (const PredicateId& p : s.preds) {
          source.SetDelta(p, delta[p].get());
        }
        RunDelta(pr.executor, cache(), source, lit_index, options_, stats,
                 &buffer);
        source.ClearDeltas();
        target.Commit(buffer, next_delta[pr.head].get());
      }
    }
    for (const PredicateId& p : s.preds) {
      delta[p]->Clear();
      std::swap(delta[p], next_delta[p]);
    }
    pending = delta_total();
  }

  // Net deltas: erased-and-still-absent tuples were deleted; inserted
  // tuples that were never erased are new. An erased-then-reinserted
  // tuple (rederived, or re-derived by the insertion pass) nets out.
  for (const PredicateId& p : s.preds) {
    const Relation* stored = idb_.Find(p);
    if (const Relation* er = NonEmptyDelta(erased, p)) {
      Relation* out = nullptr;
      for (RowRef row : er->rows()) {
        if (stored != nullptr && stored->Contains(row)) continue;
        if (out == nullptr) out = DeltaFor(dminus, p);
        out->Insert(row);
        ++batch->net_deleted;
      }
    }
    if (const Relation* ins = NonEmptyDelta(inserted, p)) {
      const Relation* er = NonEmptyDelta(erased, p);
      Relation* out = nullptr;
      for (RowRef row : ins->rows()) {
        if (er != nullptr && er->Contains(row)) continue;
        if (out == nullptr) out = DeltaFor(dplus, p);
        out->Insert(row);
        ++batch->net_inserted;
      }
    }
  }
  return Status::Ok();
}

Result<size_t> IncrementalEvaluator::AddFacts(const std::vector<Atom>& facts,
                                              EvalStats* stats) {
  SEMOPT_ASSIGN_OR_RETURN(IvmStats batch, ApplyUpdates(facts, {}, stats));
  return batch.net_inserted;
}

int64_t IncrementalEvaluator::DerivationCount(const PredicateId& pred,
                                              const Tuple& tuple) const {
  auto it = counts_.find(pred);
  if (it == counts_.end()) return -1;
  const Relation* rel = idb_.Find(pred);
  if (rel == nullptr) return 0;
  const RowId id = rel->store().Find(tuple.data());
  return id == kInvalidRowId ? 0 : it->second[id];
}

}  // namespace semopt
