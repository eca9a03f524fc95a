#include "eval/constraint_check.h"

#include <algorithm>
#include <sstream>

#include "ast/rename.h"
#include "eval/builtins.h"
#include "eval/rule_executor.h"
#include "util/string_util.h"

namespace semopt {

namespace {

/// Enumerates the ground instantiations of `ic`'s body over `edb`,
/// passing each to `on_binding` as the values of `vars` (CollectVariables
/// of the body), in order, until it returns false. The join runs one
/// driving morsel of kDefaultBatchSize rows at a time and the stop is
/// checked between morsels, so a check that knows its answer stops
/// within one block of the join and no per-row test enters the executor.
Status ForEachBodyBinding(
    const Database& edb, const Constraint& ic, EvalStats* stats,
    const std::function<bool(const std::vector<SymbolId>& vars, RowRef)>&
        on_binding) {
  const std::vector<SymbolId> vars = CollectVariables(ic.body());
  std::vector<Term> head_args;
  head_args.reserve(vars.size());
  for (SymbolId v : vars) head_args.push_back(Term::Var(v));
  Rule probe_rule("ic$probe", Atom("ic$body", head_args), ic.body());
  SEMOPT_ASSIGN_OR_RETURN(RuleExecutor exec, RuleExecutor::Create(probe_rule));
  DatabaseSource source(&edb);
  SEMOPT_ASSIGN_OR_RETURN(
      RuleExecutor::PreparedPlan plan,
      exec.Prepare(source, -1, /*size_aware=*/true, /*partition=*/true));
  bool stopped = false;
  const BatchSink sink = [&](const TupleBuffer& block) {
    for (size_t r = 0; r < block.size() && !stopped; ++r) {
      stopped = !on_binding(vars, block.row(r));
    }
  };
  const int driving = exec.DrivingLiteral(plan);
  if (driving < 0) {
    exec.ExecutePlanBatched(plan, source, -1, sink, stats);
    return Status::Ok();
  }
  const Relation* rel =
      edb.Find(ic.body()[static_cast<size_t>(driving)].atom().pred_id());
  const size_t n = rel == nullptr ? 0 : rel->size();
  constexpr size_t kMorsel = RuleExecutor::kDefaultBatchSize;
  for (size_t begin = 0; begin < n && !stopped; begin += kMorsel) {
    exec.ExecutePlanBatched(plan, source, -1, sink, stats, kMorsel, begin,
                            std::min(begin + kMorsel, n));
  }
  return Status::Ok();
}

/// Checks the (possibly existential) IC head under the body binding
/// `values` of `vars`. Head variables not bound by the body are
/// existentially quantified.
Result<bool> HeadHolds(const Database& edb, const Literal& head,
                       const std::vector<SymbolId>& vars, RowRef values) {
  auto resolve = [&](const Term& t) -> Term {
    if (t.IsVariable()) {
      for (size_t i = 0; i < vars.size(); ++i) {
        if (vars[i] == t.symbol()) return values[i];
      }
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

/// Whether `ic` is violated under the body binding `values` of `vars`.
Result<bool> Violated(const Database& edb, const Constraint& ic,
                      const std::vector<SymbolId>& vars, RowRef values) {
  if (!ic.head().has_value()) return true;  // denial: any body instance
  SEMOPT_ASSIGN_OR_RETURN(bool holds,
                          HeadHolds(edb, *ic.head(), vars, values));
  return !holds;
}

}  // namespace

Result<bool> Satisfies(const Database& edb, const Constraint& ic) {
  bool satisfied = true;
  Status head_status = Status::Ok();
  SEMOPT_RETURN_IF_ERROR(ForEachBodyBinding(
      edb, ic, nullptr,
      [&](const std::vector<SymbolId>& vars, RowRef values) {
        Result<bool> violated = Violated(edb, ic, vars, values);
        if (!violated.ok()) {
          head_status = violated.status();
          return false;
        }
        satisfied = !*violated;
        return satisfied;
      }));
  SEMOPT_RETURN_IF_ERROR(head_status);
  return satisfied;
}

Result<std::vector<ConstraintViolation>> CheckConstraints(
    const Database& edb, const std::vector<Constraint>& ics,
    size_t max_violations, EvalStats* stats) {
  std::vector<ConstraintViolation> violations;
  if (max_violations == 0) max_violations = 1;
  for (const Constraint& ic : ics) {
    if (violations.size() >= max_violations) break;
    Status head_status = Status::Ok();
    SEMOPT_RETURN_IF_ERROR(ForEachBodyBinding(
        edb, ic, stats,
        [&](const std::vector<SymbolId>& vars, RowRef values) {
          Result<bool> violated = Violated(edb, ic, vars, values);
          if (!violated.ok()) {
            head_status = violated.status();
            return false;
          }
          if (*violated) {
            // Variables in interned-id order.
            std::vector<std::pair<SymbolId, Value>> binding;
            for (size_t i = 0; i < vars.size(); ++i) {
              binding.emplace_back(vars[i], values[i]);
            }
            std::sort(binding.begin(), binding.end());
            std::ostringstream os;
            for (const auto& [var, value] : binding) {
              os << SymbolName(var) << "=" << value << " ";
            }
            violations.push_back(ConstraintViolation{
                ic.label(), StrCat("violated under ", os.str())});
          }
          return violations.size() < max_violations;
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
          *edb, ic, nullptr,
          [&](const std::vector<SymbolId>& vars, RowRef values) {
            Result<bool> violated = Violated(*edb, ic, vars, values);
            if (!violated.ok()) {
              head_status = violated.status();
              return false;
            }
            if (!*violated) return true;
            Tuple ground;
            for (const Term& t : first_db_atom->args()) {
              if (!t.IsVariable()) {
                ground.push_back(t);
                continue;
              }
              const size_t i = static_cast<size_t>(
                  std::find(vars.begin(), vars.end(), t.symbol()) -
                  vars.begin());
              ground.push_back(values[i]);
            }
            to_delete.Append(RowRef(ground));
            return true;
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
