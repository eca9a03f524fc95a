#include "magic/magic_sets.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "analysis/dependency_graph.h"
#include "ast/rename.h"
#include "eval/fixpoint.h"
#include "eval/rule_executor.h"
#include "magic/query_paths.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace semopt {

namespace {

/// Arguments of `atom` at the bound positions of `adornment`.
std::vector<Term> BoundArgs(const Atom& atom, const Adornment& adornment) {
  std::vector<Term> args;
  for (uint32_t i : adornment.BoundPositions()) args.push_back(atom.arg(i));
  return args;
}

/// Adds `atom`'s variables to `bound_vars` (order-preserving set).
void BindVars(const std::vector<Term>& terms,
              std::vector<SymbolId>* bound_vars) {
  for (const Term& t : terms) {
    if (t.IsVariable() &&
        std::find(bound_vars->begin(), bound_vars->end(), t.symbol()) ==
            bound_vars->end()) {
      bound_vars->push_back(t.symbol());
    }
  }
}

bool IsBoundTerm(const Term& t, const std::vector<SymbolId>& bound_vars) {
  return t.IsConstant() ||
         std::find(bound_vars.begin(), bound_vars.end(), t.symbol()) !=
             bound_vars.end();
}

/// Slims a magic rule's body down to the literals on the shortest
/// variable-connection paths from the guard's variables (the magic
/// predicate, body[0]) to `required` (the variables of the body
/// literal's bound arguments). Off-path literals only *filter* the
/// magic set; dropping them over-approximates it, which is sound (the
/// guarded adorned rules re-check everything) and avoids dragging
/// expensive fan-out joins into every magic rule. Falls back to the
/// full body when some required variable is unreachable.
std::vector<Literal> SliceMagicBody(const std::vector<Literal>& body,
                                    const std::vector<SymbolId>& required) {
  if (body.empty()) return body;
  // BFS over the bipartite variable/literal graph, seeded by the guard.
  std::map<SymbolId, int> var_via;       // var -> literal that reached it
  std::vector<int> literal_via(body.size(), -2);  // -2 unvisited
  std::deque<SymbolId> frontier;
  for (SymbolId v : CollectVariables(body[0])) {
    var_via[v] = -1;  // reached by the guard itself
    frontier.push_back(v);
  }
  while (!frontier.empty()) {
    SymbolId v = frontier.front();
    frontier.pop_front();
    for (size_t i = 1; i < body.size(); ++i) {
      bool contains = false;
      for (SymbolId u : CollectVariables(body[i])) {
        if (u == v) contains = true;
      }
      if (!contains || literal_via[i] != -2) continue;
      literal_via[i] = static_cast<int>(v);
      for (SymbolId u : CollectVariables(body[i])) {
        if (var_via.emplace(u, static_cast<int>(i)).second) {
          frontier.push_back(u);
        }
      }
    }
  }
  // Backtrack from every required variable, collecting path literals.
  std::set<size_t> keep;
  for (SymbolId v : required) {
    auto it = var_via.find(v);
    if (it == var_via.end()) return body;  // unreachable: keep everything
    int via = it->second;
    while (via >= 0) {
      size_t lit = static_cast<size_t>(via);
      if (!keep.insert(lit).second) break;  // already traced
      SymbolId reached_through = static_cast<SymbolId>(literal_via[lit]);
      via = var_via.at(reached_through);
    }
  }
  std::vector<Literal> sliced{body[0]};
  for (size_t i = 1; i < body.size(); ++i) {
    if (keep.count(i) > 0) sliced.push_back(body[i]);
  }
  return sliced;
}

}  // namespace

Result<MagicRewrite> MagicSets(const Program& program, const Atom& query,
                               const MagicOptions& options) {
  obs::TraceSpan span("magic.rewrite");
  std::set<PredicateId> idb = program.IdbPredicates();
  PredicateId query_pred = query.pred_id();
  if (idb.count(query_pred) == 0) {
    return Status::InvalidArgument(
        StrCat("query predicate ", query_pred.ToString(),
               " is not an IDB predicate"));
  }

  Adornment query_adornment = Adornment::ForAtom(query, {});

  MagicRewrite out;
  out.query_adornment = query_adornment;
  out.answer_pred = PredicateId{AdornedName(query_pred.name, query_adornment),
                                query_pred.arity};

  // Seed fact: magic$q$a(constants of the query).
  {
    std::vector<Term> seed_args = BoundArgs(query, query_adornment);
    out.program.AddRule(Rule(
        "magic_seed",
        Atom(MagicName(query_pred.name, query_adornment),
             std::move(seed_args)),
        {}));
  }

  std::deque<std::pair<PredicateId, Adornment>> worklist;
  std::set<std::pair<PredicateId, Adornment>> seen;
  worklist.push_back({query_pred, query_adornment});
  seen.insert({query_pred, query_adornment});

  // IDB predicates the adorned rules read under negation: they keep
  // their original (unadorned) rules.
  std::set<PredicateId> negated_idb;
  int magic_rule_counter = 0;
  while (!worklist.empty()) {
    auto [pred, adornment] = worklist.front();
    worklist.pop_front();

    for (size_t rule_index : program.RulesFor(pred)) {
      const Rule& rule = program.rules()[rule_index];

      // The guarded adorned rule starts with the magic guard.
      std::vector<Term> guard_args = BoundArgs(rule.head(), adornment);
      std::vector<Literal> new_body;
      new_body.push_back(Literal::Relational(
          Atom(MagicName(pred.name, adornment), guard_args)));

      // Bound variables: head variables at bound positions.
      std::vector<SymbolId> bound_vars;
      BindVars(guard_args, &bound_vars);

      for (const Literal& lit : rule.body()) {
        if (lit.IsComparison()) {
          // `=` propagates bindings; other comparisons only filter.
          if (!lit.negated() && lit.op() == ComparisonOp::kEq &&
              (IsBoundTerm(lit.lhs(), bound_vars) ||
               IsBoundTerm(lit.rhs(), bound_vars))) {
            BindVars({lit.lhs(), lit.rhs()}, &bound_vars);
          }
          new_body.push_back(lit);
          continue;
        }
        const Atom& atom = lit.atom();
        if (idb.count(atom.pred_id()) == 0 || lit.negated()) {
          // EDB literal (or stratified negation): keep raw; positive
          // occurrences bind their variables.
          new_body.push_back(lit);
          if (!lit.negated()) BindVars(atom.args(), &bound_vars);
          if (lit.negated() && idb.count(atom.pred_id()) > 0) {
            negated_idb.insert(atom.pred_id());
          }
          continue;
        }
        // IDB body literal: derive its adornment from current bindings,
        // emit the magic rule, enqueue, and adorn in place.
        Adornment body_adornment = Adornment::ForAtom(atom, bound_vars);
        {
          std::vector<Term> magic_args = BoundArgs(atom, body_adornment);
          std::vector<SymbolId> required;
          for (const Term& t : magic_args) {
            if (t.IsVariable()) required.push_back(t.symbol());
          }
          Rule magic_rule(
              StrCat("magic", magic_rule_counter++),
              Atom(MagicName(atom.predicate(), body_adornment),
                   std::move(magic_args)),
              options.slice_magic_bodies ? SliceMagicBody(new_body, required)
                                         : new_body);
          // The slice may theoretically lose a binding chain a
          // comparison depended on; fall back to the full prefix if the
          // sliced rule is unsafe.
          if (!RuleExecutor::Create(magic_rule).ok()) {
            magic_rule.mutable_body() = new_body;
          }
          out.program.AddRule(std::move(magic_rule));
        }
        if (seen.insert({atom.pred_id(), body_adornment}).second) {
          worklist.push_back({atom.pred_id(), body_adornment});
        }
        new_body.push_back(Literal::Relational(
            Atom(AdornedName(atom.predicate(), body_adornment),
                 atom.args())));
        BindVars(atom.args(), &bound_vars);
      }

      Rule adorned_rule(
          StrCat(rule.label().empty() ? "r" : rule.label(), "$",
                 adornment.ToString()),
          Atom(AdornedName(pred.name, adornment), rule.head().args()),
          std::move(new_body));
      out.program.AddRule(std::move(adorned_rule));
    }
  }
  // A negated literal needs its predicate in full, so the rewrite
  // carries the original rules of its dependency cone.
  if (!negated_idb.empty()) {
    const DependencyGraph graph = DependencyGraph::Build(program);
    std::set<PredicateId> cone;
    for (const PredicateId& q : negated_idb) {
      const std::set<PredicateId> reach = graph.ReachableFrom(q);
      cone.insert(reach.begin(), reach.end());
    }
    for (const Rule& rule : program.rules()) {
      if (cone.count(rule.head().pred_id()) > 0) out.program.AddRule(rule);
    }
  }
  return out;
}

Result<std::vector<Tuple>> AnswerWithMagic(const Program& program,
                                           const Database& edb,
                                           const Atom& query,
                                           EvalStats* stats,
                                           const MagicOptions& options,
                                           const EvalOptions& eval_options) {
  obs::TraceSpan span("magic.answer");
  SEMOPT_ASSIGN_OR_RETURN(QueryPlan plan, PlanMagic(program, query, options));
  SEMOPT_ASSIGN_OR_RETURN(QueryResult result,
                          RunQueryPlan(plan, edb, eval_options, stats));
  // The plan projects the query's variables; put the constants back.
  std::map<SymbolId, size_t> column;
  for (size_t i = 0; i < plan.variables.size(); ++i) {
    column.emplace(plan.variables[i], i);
  }
  std::vector<Tuple> answers;
  answers.reserve(result.tuples.size());
  for (const Tuple& row : result.tuples) {
    Tuple& answer = answers.emplace_back();
    for (const Term& t : query.args()) {
      answer.push_back(t.IsVariable() ? row[column.at(t.symbol())] : t);
    }
  }
  return answers;
}

}  // namespace semopt
