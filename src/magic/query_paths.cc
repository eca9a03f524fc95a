#include "magic/query_paths.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/dependency_graph.h"
#include "ast/rename.h"
#include "eval/rule_executor.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace semopt {

namespace {

constexpr std::string_view kAnswerPredicate = "query$answer";
constexpr std::string_view kSeedPredicate = "query$seed";

/// `lit` with every term replaced by `f(term)`.
template <typename F>
Literal MapTerms(const Literal& lit, F&& f) {
  if (lit.IsRelational()) {
    std::vector<Term> args;
    for (const Term& t : lit.atom().args()) args.push_back(f(t));
    Atom atom(lit.atom().predicate(), std::move(args));
    return lit.negated() ? Literal::NegatedRelational(std::move(atom))
                         : Literal::Relational(std::move(atom));
  }
  const Term lhs = f(lit.lhs());
  const Term rhs = f(lit.rhs());
  return lit.negated() ? Literal::NegatedComparison(lhs, lit.op(), rhs)
                       : Literal::Comparison(lhs, lit.op(), rhs);
}

/// The relational literal `lit` over predicate `pred` instead.
Literal Renamed(const Literal& lit, SymbolId pred) {
  return Literal::Relational(Atom(pred, lit.atom().args()));
}

/// The variable holding seed column `i`. A leading `$` keeps it apart
/// from every parsed or renamed variable.
Term SeedVar(size_t i) { return Term::Var(StrCat("$k", i)); }

/// `query$seed($k0, ..., $k<n-1>)`.
Literal SeedLiteral(size_t n) {
  std::vector<Term> args;
  for (size_t i = 0; i < n; ++i) args.push_back(SeedVar(i));
  return Literal::Relational(Atom(kSeedPredicate, std::move(args)));
}

/// Placeholder for "the head argument at position i" in a selection
/// that is instantiated once per exit rule.
Term PositionVar(size_t i) { return Term::Var(StrCat("$p", i)); }

Rule QueryRule(const std::vector<Term>& projection,
               std::vector<Literal> body) {
  return Rule("query$", Atom(kAnswerPredicate, projection), std::move(body));
}

/// `body` with every constant replaced by the next seed variable; the
/// constants go to `seed`, in body order.
std::vector<Literal> Lifted(const std::vector<Literal>& body, Tuple* seed) {
  std::vector<Literal> lifted;
  for (const Literal& lit : body) {
    lifted.push_back(MapTerms(lit, [&](const Term& t) {
      if (!t.IsConstant()) return t;
      seed->push_back(t);
      return SeedVar(seed->size() - 1);
    }));
  }
  return lifted;
}

/// The query rule's body on the seeded paths: the seed literal (when
/// there are constants), then the lifted body. Body literal k sits at
/// `SeededIndex(seed, k)`.
std::vector<Literal> SeededBody(const Tuple& seed,
                                const std::vector<Literal>& lifted) {
  std::vector<Literal> body;
  if (!seed.empty()) body.push_back(SeedLiteral(seed.size()));
  body.insert(body.end(), lifted.begin(), lifted.end());
  return body;
}

size_t SeededIndex(const Tuple& seed, size_t k) {
  return seed.empty() ? k : k + 1;
}

/// Adds to `out` the rules of `program` whose heads `preds` reach.
void AddConeRules(const Program& program, const DependencyGraph& graph,
                  const std::set<PredicateId>& preds, Program* out) {
  std::set<PredicateId> cone;
  for (const PredicateId& p : preds) {
    const std::set<PredicateId> reach = graph.ReachableFrom(p);
    cone.insert(reach.begin(), reach.end());
  }
  for (const Rule& rule : program.rules()) {
    if (cone.count(rule.head().pred_id()) > 0) out->AddRule(rule);
  }
}

/// The selections of the pushed path for body literal `index`, or
/// false when the literal does not meet the conditions of PlanQuery.
/// Each selection is a comparison over PositionVar(i) (p's argument at
/// i) and seed variables.
bool PushableSelections(const Program& program, const DependencyGraph& graph,
                        const std::vector<Literal>& body,
                        const std::vector<Literal>& lifted, size_t index,
                        std::vector<Literal>* selections) {
  const Literal& lit = body[index];
  const PredicateId p = lit.atom().pred_id();
  for (const std::vector<PredicateId>& scc : graph.Sccs()) {
    if (std::find(scc.begin(), scc.end(), p) != scc.end() && scc.size() > 1) {
      return false;
    }
  }
  std::vector<bool> invariant(p.arity, true);
  for (size_t ri : program.RulesFor(p)) {
    const Rule& rule = program.rules()[ri];
    const int uses = rule.CountBodyUses(p);
    if (uses == 0) continue;  // exit rule
    if (uses > 1) return false;
    for (const Literal& b : rule.body()) {
      if (!b.IsRelational() || b.atom().pred_id() != p) continue;
      if (b.negated()) return false;
      for (size_t i = 0; i < p.arity; ++i) {
        invariant[i] = invariant[i] && rule.head().arg(i).IsVariable() &&
                       b.atom().arg(i) == rule.head().arg(i);
      }
    }
  }

  const Atom& atom = lit.atom();
  std::map<SymbolId, size_t> first_position;
  std::set<SymbolId> variant_vars;  // at some non-invariant position
  for (size_t i = 0; i < p.arity; ++i) {
    const Term& t = atom.arg(i);
    if (t.IsConstant()) {
      if (!invariant[i]) return false;
      selections->push_back(Literal::Comparison(
          PositionVar(i), ComparisonOp::kEq, lifted[index].atom().arg(i)));
      continue;
    }
    if (!invariant[i]) variant_vars.insert(t.symbol());
    auto [it, inserted] = first_position.emplace(t.symbol(), i);
    if (inserted) continue;
    if (!invariant[i] || !invariant[it->second]) return false;
    selections->push_back(Literal::Comparison(
        PositionVar(it->second), ComparisonOp::kEq, PositionVar(i)));
  }
  for (size_t k = 0; k < body.size(); ++k) {
    if (!body[k].IsComparison()) continue;
    bool touches = false, inside = true;
    for (SymbolId v : CollectVariables(body[k])) {
      if (variant_vars.count(v) > 0) return false;
      if (first_position.count(v) > 0) {
        touches = true;
      } else {
        inside = false;
      }
    }
    // A comparison joining this literal to others stays in the query
    // rule only.
    if (!touches || !inside) continue;
    selections->push_back(MapTerms(lifted[k], [&](const Term& t) {
      if (!t.IsVariable()) return t;
      auto it = first_position.find(t.symbol());
      return it == first_position.end() ? t : PositionVar(it->second);
    }));
  }
  return !selections->empty();
}

/// Builds the pushed path for body literal `index` into `plan`:
/// p$q's exit rules gain the selections, its recursive rules read p$q,
/// and the query rule reads p$q in place of the literal. The plan keeps
/// only the rules p$q and the rest of the body reach.
void BuildPushed(const Program& program, const DependencyGraph& graph,
                 const std::vector<Literal>& lifted, size_t index,
                 const std::vector<Literal>& selections,
                 const std::vector<Term>& projection, QueryPlan* plan) {
  const PredicateId p = lifted[index].atom().pred_id();
  const SymbolId pq = InternSymbol(StrCat(SymbolName(p.name), "$q"));
  std::map<SymbolId, size_t> positions;
  for (size_t i = 0; i < p.arity; ++i) {
    positions.emplace(PositionVar(i).symbol(), i);
  }
  std::map<SymbolId, Term> seed_values;
  for (size_t i = 0; i < plan->seed.size(); ++i) {
    seed_values.emplace(SeedVar(i).symbol(), plan->seed[i]);
  }
  // Rendered with p's argument positions and the query's constants.
  for (const Literal& sel : selections) {
    plan->pushed.push_back(MapTerms(sel, [&](const Term& t) {
      if (!t.IsVariable()) return t;
      if (auto it = positions.find(t.symbol()); it != positions.end()) {
        return Term::Var(StrCat(SymbolName(p.name), "[", it->second, "]"));
      }
      return seed_values.at(t.symbol());
    }).ToString());
  }

  // p's SCC is {p}, so p$q reads what p's rules read besides p; p
  // itself stays only if another body literal reaches it.
  std::set<PredicateId> reads;
  for (size_t k = 0; k < lifted.size(); ++k) {
    if (k != index && lifted[k].IsRelational()) {
      reads.insert(lifted[k].atom().pred_id());
    }
  }
  std::vector<Rule> specialized;
  for (size_t ri : program.RulesFor(p)) {
    const Rule& rule = program.rules()[ri];
    Rule copy(StrCat(rule.label().empty() ? "r" : rule.label(), "$q"),
              Atom(pq, rule.head().args()), {});
    for (const Literal& b : rule.body()) {
      if (b.IsRelational() && b.atom().pred_id() != p) {
        reads.insert(b.atom().pred_id());
      }
    }
    if (rule.CountBodyUses(p) == 0) {
      copy.mutable_body() = SeededBody(plan->seed, rule.body());
      for (const Literal& sel : selections) {
        copy.mutable_body().push_back(MapTerms(sel, [&](const Term& t) {
          if (!t.IsVariable()) return t;
          auto it = positions.find(t.symbol());
          return it == positions.end() ? t : rule.head().arg(it->second);
        }));
      }
    } else {
      for (const Literal& b : rule.body()) {
        const bool recursive = b.IsRelational() && b.atom().pred_id() == p;
        copy.mutable_body().push_back(recursive ? Renamed(b, pq) : b);
      }
    }
    specialized.push_back(std::move(copy));
  }
  AddConeRules(program, graph, reads, &plan->program);
  for (Rule& rule : specialized) plan->program.AddRule(std::move(rule));
  std::vector<Literal> query_body = SeededBody(plan->seed, lifted);
  query_body[SeededIndex(plan->seed, index)] = Renamed(lifted[index], pq);
  plan->program.AddRule(QueryRule(projection, std::move(query_body)));
}

/// Builds the magic path for body literal `goal` into `plan`: the
/// rewrite of `program` for the goal, then the query rule over the
/// adorned answer predicate. The rewrite's seed fact becomes a rule
/// over the seed relation, so the rules stay the same for every
/// constant.
Status BuildMagic(const Program& program, const std::vector<Literal>& body,
                  const std::vector<Literal>& lifted, size_t goal,
                  const std::vector<Term>& projection,
                  const MagicOptions& options, QueryPlan* plan) {
  SEMOPT_ASSIGN_OR_RETURN(MagicRewrite rewrite,
                          MagicSets(program, body[goal].atom(), options));
  const Atom& lifted_goal = lifted[goal].atom();
  for (const Rule& rule : rewrite.program.rules()) {
    if (rule.label() != "magic_seed" || plan->seed.empty()) {
      plan->program.AddRule(rule);
      continue;
    }
    std::vector<Term> bound_args;
    for (uint32_t i : rewrite.query_adornment.BoundPositions()) {
      bound_args.push_back(lifted_goal.arg(i));
    }
    plan->program.AddRule(
        Rule(rule.label(), Atom(rule.head().predicate(), std::move(bound_args)),
             {SeedLiteral(plan->seed.size())}));
  }
  std::vector<Literal> query_body = SeededBody(plan->seed, lifted);
  query_body[SeededIndex(plan->seed, goal)] =
      Renamed(lifted[goal], rewrite.answer_pred.name);
  plan->program.AddRule(QueryRule(projection, std::move(query_body)));
  return Status::Ok();
}

/// The body literal the magic path answers: the one relational literal
/// of `body`, when it is positive, IDB and has a constant; -1
/// otherwise.
int MagicGoal(const std::set<PredicateId>& idb,
              const std::vector<Literal>& body) {
  int goal = -1;
  for (size_t k = 0; k < body.size(); ++k) {
    if (!body[k].IsRelational()) continue;
    if (goal >= 0 || body[k].negated()) return -1;
    goal = static_cast<int>(k);
  }
  if (goal < 0) return -1;
  const Atom& atom = body[static_cast<size_t>(goal)].atom();
  if (idb.count(atom.pred_id()) == 0) return -1;
  for (const Term& t : atom.args()) {
    if (t.IsConstant()) return goal;
  }
  return -1;
}

PredicateId AnswerPredicate(size_t arity) {
  return PredicateId{InternSymbol(kAnswerPredicate),
                     static_cast<uint32_t>(arity)};
}

/// The edb path: the query rule once over `db`, answers deduplicated in
/// derivation order.
Result<QueryResult> RunEdbPlan(const QueryPlan& plan, const Database& db,
                               const EvalOptions& options, EvalStats* stats) {
  SEMOPT_RETURN_IF_ERROR(ValidateEvalOptions(options));
  obs::ScopedTraceFile trace_file(options.trace_path);
  obs::TraceSpan span("query.edb");
  const uint64_t start_ns = obs::MonotonicNowNs();
  const Rule& rule = plan.program.rules().front();
  SEMOPT_ASSIGN_OR_RETURN(RuleExecutor exec, RuleExecutor::Create(rule));
  DatabaseSource source(&db);
  SEMOPT_ASSIGN_OR_RETURN(
      RuleExecutor::PreparedPlan prepared,
      exec.Prepare(source, -1));
  Relation answers(rule.head().pred_id());
  size_t derived = 0, duplicates = 0;
  exec.ExecutePlanBatched(
      prepared, source, -1,
      [&](const TupleBuffer& block) {
        for (size_t r = 0; r < block.size(); ++r) {
          if (answers.Insert(block.row(r))) {
            ++derived;
          } else {
            ++duplicates;
          }
        }
      },
      stats, options.batch_size, 0, RuleExecutor::kNoMorsel, nullptr,
      ResolveSimdMode(options.simd));
  if (stats != nullptr) {
    const uint64_t ns = obs::MonotonicNowNs() - start_ns;
    stats->derived_tuples += derived;
    stats->duplicate_tuples += duplicates;
    stats->eval_ns += ns;
    if (options.collect_metrics) {
      RuleStats& rs = stats->per_rule[rule.label()];
      ++rs.applications;
      rs.derived += derived;
      rs.duplicates += duplicates;
      rs.exec_ns += ns;
    }
  }
  QueryResult result;
  result.variables = plan.variables;
  result.tuples = answers.CopyRows();
  return result;
}

Status SetVariables(const std::vector<Term>& projection, QueryPlan* plan) {
  for (const Term& t : projection) {
    if (!t.IsVariable()) {
      return Status::InvalidArgument(
          StrCat("projection term ", t.ToString(), " is not a variable"));
    }
    plan->variables.push_back(t.symbol());
  }
  return Status::Ok();
}

}  // namespace

const char* QueryPathName(QueryPath path) {
  switch (path) {
    case QueryPath::kEdb:
      return "edb";
    case QueryPath::kPushed:
      return "pushed";
    case QueryPath::kMagic:
      return "magic";
    case QueryPath::kSliced:
      return "sliced";
  }
  return "sliced";
}

Result<QueryPlan> PlanQuery(const Program& program,
                            const std::vector<Literal>& body,
                            const std::vector<Term>& projection) {
  QueryPlan plan;
  SEMOPT_RETURN_IF_ERROR(SetVariables(projection, &plan));
  const std::set<PredicateId> idb = program.IdbPredicates();
  std::set<PredicateId> reads;
  bool reads_idb = false;
  for (const Literal& lit : body) {
    if (!lit.IsRelational()) continue;
    reads.insert(lit.atom().pred_id());
    reads_idb = reads_idb || idb.count(lit.atom().pred_id()) > 0;
  }
  if (!reads_idb) {
    plan.path = QueryPath::kEdb;
    plan.program.AddRule(QueryRule(projection, body));
    return plan;
  }

  const std::vector<Literal> lifted = Lifted(body, &plan.seed);
  const DependencyGraph graph = DependencyGraph::Build(program);
  for (size_t k = 0; k < body.size(); ++k) {
    const Literal& lit = body[k];
    if (!lit.IsRelational() || lit.negated() ||
        idb.count(lit.atom().pred_id()) == 0) {
      continue;
    }
    std::vector<Literal> selections;
    if (PushableSelections(program, graph, body, lifted, k, &selections)) {
      plan.path = QueryPath::kPushed;
      BuildPushed(program, graph, lifted, k, selections, projection, &plan);
      return plan;
    }
  }
  if (const int goal = MagicGoal(idb, body); goal >= 0) {
    if (BuildMagic(program, body, lifted, static_cast<size_t>(goal),
                   projection, MagicOptions(), &plan)
            .ok()) {
      plan.path = QueryPath::kMagic;
      return plan;
    }
    plan.program = Program();
  }

  // The sliced path runs what AnswerQuery runs, less the rules outside
  // the body's cone; its constants stay in the query rule.
  plan.path = QueryPath::kSliced;
  plan.seed.clear();
  AddConeRules(program, graph, reads, &plan.program);
  plan.program.AddRule(QueryRule(projection, body));
  return plan;
}

Result<QueryPlan> PlanMagic(const Program& program, const Atom& query,
                            const MagicOptions& options) {
  const std::vector<Literal> body = {Literal::Relational(query)};
  std::vector<Term> projection;
  for (SymbolId v : CollectVariables(body)) projection.push_back(Term::Var(v));
  QueryPlan plan;
  plan.path = QueryPath::kMagic;
  SEMOPT_RETURN_IF_ERROR(SetVariables(projection, &plan));
  const std::vector<Literal> lifted = Lifted(body, &plan.seed);
  SEMOPT_RETURN_IF_ERROR(
      BuildMagic(program, body, lifted, 0, projection, options, &plan));
  return plan;
}

Database QueryPlanDatabase(const QueryPlan& plan, const Database& db) {
  Database overlay = db.CloneShared();
  if (!plan.seed.empty()) {
    overlay
        .GetOrCreate(PredicateId{InternSymbol(kSeedPredicate),
                                 static_cast<uint32_t>(plan.seed.size())})
        .Insert(plan.seed);
  }
  return overlay;
}

Result<QueryResult> RunQueryPlan(const QueryPlan& plan, const Database& db,
                                 const EvalOptions& options,
                                 EvalStats* stats) {
  if (plan.path == QueryPath::kEdb) {
    return RunEdbPlan(plan, db, options, stats);
  }
  Database overlay;
  if (!plan.seed.empty()) overlay = QueryPlanDatabase(plan, db);
  SEMOPT_ASSIGN_OR_RETURN(
      Database idb, Evaluate(plan.program, plan.seed.empty() ? db : overlay,
                             options, stats));
  QueryResult result;
  result.variables = plan.variables;
  if (const Relation* answers =
          idb.Find(AnswerPredicate(plan.variables.size()))) {
    result.tuples = answers->CopyRows();
  }
  return result;
}

Result<QueryResult> AnswerGoal(const Program& program, const Database& db,
                               const std::vector<Literal>& body,
                               const std::vector<Term>& projection,
                               const EvalOptions& options, EvalStats* stats,
                               QueryPlan* plan) {
  SEMOPT_ASSIGN_OR_RETURN(QueryPlan chosen,
                          PlanQuery(program, body, projection));
  Result<QueryResult> result = RunQueryPlan(chosen, db, options, stats);
  if (plan != nullptr) *plan = std::move(chosen);
  return result;
}

}  // namespace semopt
