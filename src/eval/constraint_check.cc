#include "eval/constraint_check.h"

#include <map>

#include "ast/rename.h"
#include "eval/builtins.h"
#include "eval/rule_executor.h"
#include "util/string_util.h"

namespace semopt {

namespace {

/// Enumerates the ground instantiations of `ic`'s body over `edb`,
/// passing each complete variable binding (over CollectVariables of the
/// body) to `on_binding`.
Status ForEachBodyBinding(
    const Database& edb, const Constraint& ic,
    const std::function<void(const std::map<SymbolId, Value>&)>& on_binding) {
  std::vector<SymbolId> vars = CollectVariables(ic.body());
  std::vector<Term> head_args;
  head_args.reserve(vars.size());
  for (SymbolId v : vars) head_args.push_back(Term::Var(v));
  Rule probe_rule("ic$probe", Atom("ic$body", head_args), ic.body());
  SEMOPT_ASSIGN_OR_RETURN(RuleExecutor exec, RuleExecutor::Create(probe_rule));
  DatabaseSource source(&edb);
  exec.Execute(source, -1,
               [&](const TupleBuffer& block) {
                 for (size_t r = 0; r < block.size(); ++r) {
                   RowRef t = block.row(r);
                   std::map<SymbolId, Value> binding;
                   for (size_t i = 0; i < vars.size(); ++i) {
                     binding.emplace(vars[i], t[i]);
                   }
                   on_binding(binding);
                 }
               },
               nullptr);
  return Status::Ok();
}

/// Checks the (possibly existential) IC head under `binding`. Head
/// variables not bound by the body are existentially quantified.
Result<bool> HeadHolds(const Database& edb, const Literal& head,
                       const std::map<SymbolId, Value>& binding) {
  auto resolve = [&](const Term& t) -> Term {
    if (t.IsVariable()) {
      auto it = binding.find(t.symbol());
      if (it != binding.end()) return it->second;
    }
    return t;
  };

  if (head.IsComparison()) {
    Term lhs = resolve(head.lhs());
    Term rhs = resolve(head.rhs());
    if (lhs.IsVariable() || rhs.IsVariable()) {
      return Status::InvalidArgument(
          StrCat("IC head comparison has an unbound variable: ",
                 head.ToString()));
    }
    bool holds = EvalComparisonOp(lhs, head.op(), rhs);
    return head.negated() ? !holds : holds;
  }

  const Relation* rel = edb.Find(head.atom().pred_id());
  std::vector<uint32_t> bound_cols;
  Tuple key;
  for (uint32_t col = 0; col < head.atom().args().size(); ++col) {
    Term t = resolve(head.atom().arg(col));
    if (t.IsConstant()) {
      bound_cols.push_back(col);
      key.push_back(t);
    }
  }
  bool exists;
  if (rel == nullptr || rel->empty()) {
    exists = false;
  } else if (bound_cols.size() == head.atom().args().size()) {
    exists = rel->Contains(key);
  } else {
    // Probe requires a pre-declared index; constraint checking is a
    // single-threaded entry point, so building it here is safe.
    const_cast<Relation*>(rel)->EnsureIndex(bound_cols);
    exists = !rel->Probe(bound_cols, key).empty();
  }
  return head.negated() ? !exists : exists;
}

}  // namespace

Result<bool> Satisfies(const Database& edb, const Constraint& ic) {
  bool satisfied = true;
  Status head_status = Status::Ok();
  SEMOPT_RETURN_IF_ERROR(ForEachBodyBinding(
      edb, ic, [&](const std::map<SymbolId, Value>& binding) {
        if (!satisfied || !head_status.ok()) return;
        if (!ic.head().has_value()) {
          satisfied = false;  // denial: any body instance violates
          return;
        }
        Result<bool> holds = HeadHolds(edb, *ic.head(), binding);
        if (!holds.ok()) {
          head_status = holds.status();
          return;
        }
        if (!*holds) satisfied = false;
      }));
  SEMOPT_RETURN_IF_ERROR(head_status);
  return satisfied;
}

Result<std::vector<ConstraintViolation>> CheckConstraints(
    const Database& edb, const std::vector<Constraint>& ics,
    size_t max_violations) {
  std::vector<ConstraintViolation> violations;
  if (max_violations == 0) max_violations = 1;
  for (const Constraint& ic : ics) {
    if (violations.size() >= max_violations) break;
    Status head_status = Status::Ok();
    SEMOPT_RETURN_IF_ERROR(ForEachBodyBinding(
        edb, ic, [&](const std::map<SymbolId, Value>& binding) {
          if (violations.size() >= max_violations || !head_status.ok()) {
            return;
          }
          bool violated = true;
          if (ic.head().has_value()) {
            Result<bool> holds = HeadHolds(edb, *ic.head(), binding);
            if (!holds.ok()) {
              head_status = holds.status();
              return;
            }
            violated = !*holds;
          }
          if (violated) {
            std::ostringstream os;
            for (const auto& [var, value] : binding) {
              os << SymbolName(var) << "=" << value << " ";
            }
            violations.push_back(ConstraintViolation{
                ic.label(), StrCat("violated under ", os.str())});
          }
        }));
    SEMOPT_RETURN_IF_ERROR(head_status);
  }
  return violations;
}

Result<size_t> RepairByDeletion(Database* edb,
                                const std::vector<Constraint>& ics) {
  size_t total_deleted = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Constraint& ic : ics) {
      // Find the first database literal of the body; its supporting
      // fact is what we delete for each violated instance.
      const Atom* first_db_atom = nullptr;
      for (const Literal& l : ic.body()) {
        if (l.IsRelational()) {
          first_db_atom = &l.atom();
          break;
        }
      }
      if (first_db_atom == nullptr) continue;  // purely evaluable IC

      TupleBuffer to_delete(first_db_atom->pred_id().arity);
      Status head_status = Status::Ok();
      SEMOPT_RETURN_IF_ERROR(ForEachBodyBinding(
          *edb, ic, [&](const std::map<SymbolId, Value>& binding) {
            if (!head_status.ok()) return;
            bool violated = true;
            if (ic.head().has_value()) {
              Result<bool> holds = HeadHolds(*edb, *ic.head(), binding);
              if (!holds.ok()) {
                head_status = holds.status();
                return;
              }
              violated = !*holds;
            }
            if (!violated) return;
            Tuple ground;
            for (const Term& t : first_db_atom->args()) {
              ground.push_back(t.IsVariable() ? binding.at(t.symbol()) : t);
            }
            to_delete.Append(RowRef(ground));
          }));
      SEMOPT_RETURN_IF_ERROR(head_status);
      if (to_delete.empty()) continue;

      // Point-delete the offending tuples; Erase skips duplicate
      // victims and patches the relation's indexes in place.
      Relation* rel = edb->FindMutable(first_db_atom->pred_id());
      if (rel == nullptr) continue;
      total_deleted += rel->Erase(to_delete);
      changed = true;
    }
  }
  return total_deleted;
}

}  // namespace semopt
