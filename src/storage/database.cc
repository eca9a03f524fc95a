#include "storage/database.h"

#include <sstream>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace semopt {

void RelationDelta::ApplyTo(Relation* rel) const {
  rel->Erase(erased);
  rel->Commit(inserted, /*delta_target=*/nullptr);
}

Result<Tuple> FactTuple(const Atom& fact) {
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

void Database::DetachIfShared(std::shared_ptr<Relation>* slot) {
  // use_count == 1 means no other database holds this relation; the
  // snapshot path guarantees no concurrent mutator (writers serialize)
  // and readers of older generations keep their own shared_ptr, so the
  // count cannot drop to 1 spuriously under us.
  if (slot->use_count() == 1) return;
  *slot = std::make_shared<Relation>(**slot);
  obs::MetricsRegistry::Global()
      .GetCounter("storage.snapshot.relations_cloned")
      .Add(1);
}

Relation& Database::GetOrCreate(const PredicateId& pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    it = relations_.emplace(pred, std::make_shared<Relation>(pred)).first;
  } else {
    DetachIfShared(&it->second);
  }
  return *it->second;
}

bool Database::Shared(const PredicateId& pred) const {
  auto it = relations_.find(pred);
  return it != relations_.end() && it->second.use_count() > 1;
}

Relation& Database::Unshare(const PredicateId& pred) {
  std::shared_ptr<Relation>& slot = relations_[pred];
  slot = slot == nullptr ? std::make_shared<Relation>(pred)
                         : std::make_shared<Relation>(*slot);
  return *slot;
}

const Relation* Database::Find(const PredicateId& pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : it->second.get();
}

Relation* Database::FindMutable(const PredicateId& pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return nullptr;
  DetachIfShared(&it->second);
  return it->second.get();
}

Status Database::AddFact(const Atom& fact) {
  SEMOPT_ASSIGN_OR_RETURN(Tuple tuple, FactTuple(fact));
  GetOrCreate(fact.pred_id()).Insert(tuple);
  return Status::Ok();
}

void Database::AddTuple(std::string_view predicate, Tuple tuple) {
  PredicateId pred{InternSymbol(predicate),
                   static_cast<uint32_t>(tuple.size())};
  GetOrCreate(pred).Insert(tuple);
}

std::vector<PredicateId> Database::Predicates() const {
  std::vector<PredicateId> preds;
  preds.reserve(relations_.size());
  for (const auto& [pred, rel] : relations_) preds.push_back(pred);
  return preds;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [pred, rel] : relations_) total += rel->size();
  return total;
}

Database Database::Clone() const {
  // Relation's copy constructor copies the flat arena, dedup table and
  // indexes wholesale — no per-tuple rehash/re-insert.
  Database copy;
  for (const auto& [pred, rel] : relations_) {
    copy.relations_.emplace(pred, std::make_shared<Relation>(*rel));
  }
  return copy;
}

Database Database::CloneShared() const {
  Database copy;
  copy.relations_ = relations_;
  return copy;
}

void Database::CopyRelationsFrom(const Database& other) {
  for (const auto& [pred, rel] : other.relations_) {
    relations_[pred] = std::make_shared<Relation>(*rel);
  }
}

void Database::ApplyDelta(const DatabaseDelta& delta) {
  for (const auto& [pred, change] : delta) {
    if (!change.empty()) change.ApplyTo(&GetOrCreate(pred));
  }
}

Result<DatabaseDelta> StageBatch(const Database& base,
                                 const std::vector<Atom>& adds,
                                 const std::vector<Atom>& dels) {
  // `added` holds every added tuple once; a deletion of one of them is
  // undone by the insertion that follows it. `erased` holds the present
  // tuples that stay deleted.
  std::map<PredicateId, Relation> added, erased;
  auto side = [](std::map<PredicateId, Relation>* map,
                 const PredicateId& pred) -> Relation& {
    return map->try_emplace(pred, pred).first->second;
  };
  for (const Atom& fact : adds) {
    SEMOPT_ASSIGN_OR_RETURN(Tuple tuple, FactTuple(fact));
    side(&added, fact.pred_id()).Insert(tuple);
  }
  for (const Atom& fact : dels) {
    SEMOPT_ASSIGN_OR_RETURN(Tuple tuple, FactTuple(fact));
    const Relation* rel = base.Find(fact.pred_id());
    if (rel == nullptr || !rel->Contains(tuple)) continue;
    auto it = added.find(fact.pred_id());
    if (it != added.end() && it->second.Contains(tuple)) continue;
    side(&erased, fact.pred_id()).Insert(tuple);
  }
  DatabaseDelta delta;
  for (const auto& [pred, rel] : erased) {
    TupleBuffer& out = delta.try_emplace(pred, pred.arity).first->second.erased;
    for (RowRef row : rel.rows()) out.Append(row);
  }
  for (const auto& [pred, rel] : added) {
    const Relation* present = base.Find(pred);
    for (RowRef row : rel.rows()) {
      if (present != nullptr && present->Contains(row)) continue;
      delta.try_emplace(pred, pred.arity).first->second.inserted.Append(row);
    }
  }
  return delta;
}

bool Database::SameFactsAs(const Database& other) const {
  auto nonempty_count =
      [](const std::map<PredicateId, std::shared_ptr<Relation>>& rels) {
        size_t n = 0;
        for (const auto& [pred, rel] : rels) {
          if (!rel->empty()) ++n;
        }
        return n;
      };
  if (nonempty_count(relations_) != nonempty_count(other.relations_)) {
    return false;
  }
  for (const auto& [pred, rel] : relations_) {
    if (rel->empty()) continue;
    const Relation* other_rel = other.Find(pred);
    if (other_rel == nullptr || other_rel->size() != rel->size()) return false;
    for (RowRef t : rel->rows()) {
      if (!other_rel->Contains(t)) return false;
    }
  }
  return true;
}

std::string Database::ToString() const {
  std::ostringstream os;
  for (const auto& [pred, rel] : relations_) {
    os << rel->ToString() << "\n";
  }
  return os.str();
}

}  // namespace semopt
