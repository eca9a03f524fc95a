#include "eval/explain.h"

#include <cstdio>
#include <set>
#include <sstream>

#include "ast/rename.h"
#include "ast/unify.h"
#include "eval/builtins.h"
#include "eval/component_plan.h"
#include "eval/fixpoint.h"
#include "util/string_util.h"

namespace semopt {

namespace {

void Render(const ProofNode& node, const std::string& prefix, bool last,
            bool root, std::ostringstream* os) {
  if (root) {
    *os << node.fact.ToString();
  } else {
    *os << prefix << (last ? "└─ " : "├─ ") << node.fact.ToString();
  }
  if (!node.rule_label.empty()) *os << "   [" << node.rule_label << "]";
  *os << "\n";
  std::string child_prefix =
      root ? "" : prefix + (last ? "   " : "│  ");
  for (size_t i = 0; i < node.children.size(); ++i) {
    Render(node.children[i], child_prefix, i + 1 == node.children.size(),
           false, os);
  }
}

/// Depth-first proof search. `path` holds the IDB goals on the current
/// derivation path (loop check).
class ProofSearch {
 public:
  ProofSearch(const Program& program, const Database& edb,
              const Database& idb)
      : program_(program), edb_(edb), idb_(idb) {
    idb_preds_ = program.IdbPredicates();
  }

  /// Proves the ground atom `goal`, or returns false.
  bool Prove(const Atom& goal, ProofNode* out) {
    Tuple tuple;
    for (const Term& t : goal.args()) {
      if (!t.IsConstant()) return false;
      tuple.push_back(t);
    }
    if (idb_preds_.count(goal.pred_id()) == 0) {
      // EDB fact.
      const Relation* rel = edb_.Find(goal.pred_id());
      if (rel == nullptr || !rel->Contains(tuple)) return false;
      out->fact = Literal::Relational(goal);
      return true;
    }
    // Derivability oracle: the materialized IDB.
    const Relation* rel = idb_.Find(goal.pred_id());
    if (rel == nullptr || !rel->Contains(tuple)) return false;

    std::pair<PredicateId, Tuple> key{goal.pred_id(), tuple};
    if (path_.count(key) > 0) return false;  // loop on this path
    path_.insert(key);
    bool proved = false;
    for (size_t rule_index : program_.RulesFor(goal.pred_id())) {
      Rule instance = RenameApart(program_.rules()[rule_index], &gen_);
      Substitution mgu;
      if (!UnifyAtoms(instance.head(), goal, &mgu)) continue;
      instance = mgu.Apply(instance);
      std::vector<ProofNode> children;
      if (ProveBody(instance.body(), 0, &children)) {
        out->fact = Literal::Relational(goal);
        out->rule_label = program_.rules()[rule_index].label();
        out->children = std::move(children);
        proved = true;
        break;
      }
    }
    path_.erase(key);
    return proved;
  }

 private:
  /// Proves body literals from `index` on, binding variables by
  /// enumerating matching tuples; appends child proofs on success.
  bool ProveBody(const std::vector<Literal>& body, size_t index,
                 std::vector<ProofNode>* children) {
    if (index == body.size()) return true;
    const Literal lit = body[index];

    if (lit.IsComparison()) {
      Result<bool> value = EvalComparison(lit);
      if (!value.ok() || !*value) return false;
      ProofNode node;
      node.fact = lit;
      children->push_back(std::move(node));
      if (ProveBody(body, index + 1, children)) return true;
      children->pop_back();
      return false;
    }

    if (lit.negated()) {
      // Stratified negation: check absence in the materialized state.
      Tuple tuple;
      for (const Term& t : lit.atom().args()) {
        if (!t.IsConstant()) return false;
        tuple.push_back(t);
      }
      const Database& source =
          idb_preds_.count(lit.atom().pred_id()) > 0 ? idb_ : edb_;
      const Relation* rel = source.Find(lit.atom().pred_id());
      if (rel != nullptr && rel->Contains(tuple)) return false;
      ProofNode node;
      node.fact = lit;
      children->push_back(std::move(node));
      if (ProveBody(body, index + 1, children)) return true;
      children->pop_back();
      return false;
    }

    // Positive relational literal: enumerate matching tuples from the
    // materialized relation (EDB or IDB), binding variables.
    const Database& source =
        idb_preds_.count(lit.atom().pred_id()) > 0 ? idb_ : edb_;
    const Relation* rel = source.Find(lit.atom().pred_id());
    if (rel == nullptr) return false;
    for (RowRef row : rel->rows()) {
      Substitution binding;
      Atom ground(lit.atom().predicate(),
                  std::vector<Term>(row.begin(), row.end()));
      if (!MatchAtom(lit.atom(), ground, &binding)) continue;

      ProofNode child;
      if (!Prove(ground, &child)) continue;
      children->push_back(std::move(child));
      // Bind the remaining body under this match.
      std::vector<Literal> rest;
      for (size_t i = index + 1; i < body.size(); ++i) {
        rest.push_back(binding.Apply(body[i]));
      }
      std::vector<Literal> rebound(body.begin(), body.begin() + index + 1);
      for (Literal& l : rest) rebound.push_back(std::move(l));
      if (ProveBody(rebound, index + 1, children)) return true;
      children->pop_back();
    }
    return false;
  }

  const Program& program_;
  const Database& edb_;
  const Database& idb_;
  std::set<PredicateId> idb_preds_;
  std::set<std::pair<PredicateId, Tuple>> path_;
  FreshVariableGenerator gen_{"E"};
};

}  // namespace

std::string ProofNode::ToString() const {
  std::ostringstream os;
  Render(*this, "", true, true, &os);
  return os.str();
}

Result<ProofNode> Explain(const Program& program, const Database& edb,
                          const Database& idb, const Atom& goal) {
  for (const Term& t : goal.args()) {
    if (!t.IsConstant()) {
      return Status::InvalidArgument(
          StrCat("goal must be ground: ", goal.ToString()));
    }
  }
  ProofSearch search(program, edb, idb);
  ProofNode root;
  if (!search.Prove(goal, &root)) {
    return Status::NotFound(
        StrCat(goal.ToString(), " is not derivable"));
  }
  return root;
}

Result<ProofNode> ExplainFromScratch(const Program& program,
                                     const Database& edb, const Atom& goal) {
  SEMOPT_ASSIGN_OR_RETURN(Database idb, Evaluate(program, edb));
  return Explain(program, edb, idb, goal);
}

namespace {

/// EvalStats::per_rule key for a planned rule (same convention as the
/// engine: the label when set, else the head predicate).
std::string AnalyzeRuleKey(const PlannedRule& pr) {
  const std::string& label = pr.executor.rule().label();
  return label.empty() ? pr.head.ToString() : label;
}

}  // namespace

std::string ExplainAnalyze(const Program& program, const Database& edb,
                           const EvalStats& stats) {
  std::ostringstream os;
  Result<std::vector<EvalComponent>> components = PlanComponents(program);
  if (!components.ok()) return components.status().ToString();
  // Plans over the EDB only: IDB relations count as empty, the regime a
  // fresh evaluation's first rounds plan in. Mirrors the server's
  // `:plan` view so `:profile` and `:plan` show the same plans.
  DatabaseSource source(&edb);

  int64_t stratum = -1;
  for (const EvalComponent& component : *components) {
    ++stratum;
    if (component.rules.empty()) continue;  // EDB-only component
    os << "stratum " << stratum << " ("
       << (component.recursive ? "recursive" : "non-recursive") << ", "
       << component.rules.size()
       << (component.rules.size() == 1 ? " rule" : " rules") << "):\n";
    for (const PlannedRule& pr : component.rules) {
      Result<RuleExecutor::PreparedPlan> plan =
          pr.executor.Prepare(source, -1);
      if (plan.ok()) {
        os << pr.executor.DescribePlan(*plan) << "\n";
      } else {
        os << pr.executor.rule().ToString() << "\n  "
           << plan.status().ToString() << "\n";
      }
      auto it = stats.per_rule.find(AnalyzeRuleKey(pr));
      if (it != stats.per_rule.end()) {
        const RuleStats& rs = it->second;
        const uint64_t us = rs.exec_ns / 1000;
        const double share =
            stats.eval_ns > 0 ? 100.0 * static_cast<double>(rs.exec_ns) /
                                    static_cast<double>(stats.eval_ns)
                              : 0.0;
        char pct[16];
        std::snprintf(pct, sizeof(pct), "%.1f", share);
        os << "  actual: " << rs.applications << " application(s), "
           << rs.derived << " derived, " << rs.duplicates << " duplicate(s), "
           << us << " us (" << pct << "% of eval)\n";
      } else {
        os << "  actual: (not executed)\n";
      }
    }
  }

  std::string out = os.str();
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace semopt
