#include "server/materialized_view.h"

#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "util/string_util.h"

namespace semopt {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Result<Tuple> GroundTuple(const Atom& fact) {
  Tuple tuple;
  tuple.reserve(fact.args().size());
  for (const Term& t : fact.args()) {
    if (!t.IsConstant()) {
      return Status::InvalidArgument(
          StrCat("fact ", fact.ToString(), " is not ground"));
    }
    tuple.push_back(t);
  }
  return tuple;
}

}  // namespace

Result<DatabaseDelta> EdbBatchDelta(const Database& base,
                                    const std::vector<Atom>& adds,
                                    const std::vector<Atom>& dels) {
  // Set semantics per predicate: `gone` holds present tuples being
  // deleted, `fresh` absent tuples being added, and `back` deleted
  // tuples re-added in the same batch — they end where they started.
  std::map<PredicateId, Relation> gone, fresh, back;
  auto side = [](std::map<PredicateId, Relation>* map,
                 const PredicateId& pred) -> Relation& {
    return map->try_emplace(pred, pred).first->second;
  };
  for (const Atom& fact : dels) {
    SEMOPT_ASSIGN_OR_RETURN(Tuple tuple, GroundTuple(fact));
    const Relation* rel = base.Find(fact.pred_id());
    if (rel != nullptr && rel->Contains(tuple)) {
      side(&gone, fact.pred_id()).Insert(tuple);
    }
  }
  for (const Atom& fact : adds) {
    SEMOPT_ASSIGN_OR_RETURN(Tuple tuple, GroundTuple(fact));
    auto it = gone.find(fact.pred_id());
    if (it != gone.end() && it->second.Contains(tuple)) {
      side(&back, fact.pred_id()).Insert(tuple);
      continue;
    }
    const Relation* rel = base.Find(fact.pred_id());
    if (rel == nullptr || !rel->Contains(tuple)) {
      side(&fresh, fact.pred_id()).Insert(tuple);
    }
  }
  DatabaseDelta delta;
  for (auto& [pred, rel] : gone) {
    auto it = back.find(pred);
    for (RowRef row : rel.rows()) {
      if (it != back.end() && it->second.Contains(row)) continue;
      delta.try_emplace(pred, pred.arity).first->second.erased.Append(row);
    }
  }
  for (const auto& [pred, rel] : fresh) {
    for (RowRef row : rel.rows()) {
      delta.try_emplace(pred, pred.arity).first->second.inserted.Append(row);
    }
  }
  return delta;
}

void CountDelta(const DatabaseDelta& delta, size_t* erased,
                size_t* inserted) {
  *erased = 0;
  *inserted = 0;
  for (const auto& [pred, change] : delta) {
    *erased += change.erased.size();
    *inserted += change.inserted.size();
  }
}

Result<std::unique_ptr<MaterializedView>> MaterializedView::Create(
    const Program& program, const Database& base, EvalOptions options,
    Mode mode) {
  auto view = std::unique_ptr<MaterializedView>(
      new MaterializedView(mode, program, options));
  if (mode == Mode::kIncremental) {
    SEMOPT_ASSIGN_OR_RETURN(
        IncrementalEvaluator inc,
        IncrementalEvaluator::Create(program, base.CloneShared(), options));
    view->inc_ = std::make_unique<IncrementalEvaluator>(std::move(inc));
  } else {
    view->edb_ = base.Clone();
    SEMOPT_ASSIGN_OR_RETURN(view->idb_,
                            Evaluate(program, view->edb_, options));
  }
  return view;
}

Result<IvmStats> MaterializedView::Apply(const std::vector<Atom>& adds,
                                         const std::vector<Atom>& dels,
                                         DatabaseDelta* delta) {
  if (mode_ == Mode::kIncremental) {
    SEMOPT_ASSIGN_OR_RETURN(IvmStats batch,
                            inc_->ApplyUpdates(adds, dels, nullptr, delta));
    totals_ = inc_->totals();
    return batch;
  }
  // Recompute baseline: mutate our EDB copy, then pay the full
  // fixpoint and diff it against the previous one. Only the EDB and
  // wall-time counters are meaningful — a recomputation has no notion
  // of per-tuple maintenance work.
  const uint64_t start_us = NowUs();
  const std::set<PredicateId> idb_preds = program_.IdbPredicates();
  for (const std::vector<Atom>* facts : {&adds, &dels}) {
    for (const Atom& fact : *facts) {
      if (idb_preds.count(fact.pred_id()) > 0) {
        return Status::InvalidArgument(
            StrCat("cannot write IDB predicate ", fact.pred_id().ToString(),
                   ": derived tuples change only through their rules"));
      }
    }
  }
  IvmStats batch;
  batch.batches = 1;
  SEMOPT_ASSIGN_OR_RETURN(*delta, EdbBatchDelta(edb_, adds, dels));
  CountDelta(*delta, &batch.edb_deleted, &batch.edb_inserted);
  edb_.ApplyDelta(*delta);
  SEMOPT_ASSIGN_OR_RETURN(Database idb, Evaluate(program_, edb_, options_));
  auto diff = [delta](const Relation* from, const Relation* to,
                      const PredicateId& pred, bool inserted) {
    if (from == nullptr) return;
    for (RowRef row : from->rows()) {
      if (to != nullptr && to->Contains(row)) continue;
      RelationDelta& d = delta->try_emplace(pred, pred.arity).first->second;
      (inserted ? d.inserted : d.erased).Append(row);
    }
  };
  for (const PredicateId& pred : idb_.Predicates()) {
    diff(idb_.Find(pred), idb.Find(pred), pred, /*inserted=*/false);
  }
  for (const PredicateId& pred : idb.Predicates()) {
    diff(idb.Find(pred), idb_.Find(pred), pred, /*inserted=*/true);
  }
  idb_ = std::move(idb);
  batch.maintenance_us = NowUs() - start_us;
  // Deliberately not published to eval.ivm.*: those counters mean
  // "incremental maintenance ran"; a recompute leg reports only
  // through its own wall time.
  totals_.Add(batch);
  return batch;
}

const Database& MaterializedView::idb() const {
  return mode_ == Mode::kIncremental ? inc_->idb() : idb_;
}

}  // namespace semopt
